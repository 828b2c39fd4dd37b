// Package obs is the middleware's observability layer: a zero-dependency
// metrics registry holding named counters, gauges, and latency histograms.
// There is no process-wide registry. Every subsystem that owns a hot path —
// transports, the netsim substrate, netmux, routing, discovery, the recovery
// WAL, the endpoint interceptor chain — counts into the registry of the node
// that owns it, handed over at construction, so one snapshot of a node's
// registry describes that node and no other. A nil *Registry hands out nil
// instruments, and every method of a nil instrument does nothing: a
// component built without a registry counts nowhere. The webbridge serves a
// node's snapshot as JSON on /metrics.
//
// Instruments are cheap enough for per-message paths: counters and gauges
// are single atomics, histograms take one short mutex hold. Snapshots are
// consistent per-instrument (not cross-instrument); Diff and Rate turn two of
// them into the deltas and rates a telemetry report carries.
package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"ndsm/internal/sketch"
)

// Counter is a monotonically increasing tally. The zero value is ready to
// use; instances obtained from a Registry are shared by name. A nil *Counter
// counts nothing and reads zero.
type Counter struct {
	v atomic.Int64
}

// Inc adds delta (which should be non-negative) to the counter.
func (c *Counter) Inc(delta int64) {
	if c != nil {
		c.v.Add(delta)
	}
}

// Value returns the current tally.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous float64 value (queue depth, energy budget). A
// nil *Gauge ignores writes and reads zero.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add shifts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge reading.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a sketch.Hist behind a mutex, plus the running sums a mean and
// a standard deviation need. Observations are milliseconds wherever the
// middleware records latency; see sketch.Hist for the grid and its error
// bound. The zero value is ready to use; a nil *Histogram ignores
// observations and summarises to zeros.
type Histogram struct {
	mu    sync.Mutex
	hist  sketch.Hist
	sum   float64
	sumSq float64
}

// Observe records one observation. The sums take only what sketch.Hist
// counted (it ignores NaN and ±Inf), so count and sum describe the same
// samples.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	if h.hist.Add(v) {
		h.sum += v
		h.sumSq += v * v
	}
	h.mu.Unlock()
}

// Summary is a point-in-time digest of a Histogram. The JSON shape (lowercase
// keys, quantiles as p50/p95/p99) is what /metrics serves for every
// histogram. An empty histogram summarises to zeros.
type Summary struct {
	Count  int     `json:"count"`
	Mean   float64 `json:"mean"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	P50    float64 `json:"p50"`
	P95    float64 `json:"p95"`
	P99    float64 `json:"p99"`
	StdDev float64 `json:"stddev"`
}

// Summary digests the histogram: exact count, mean, extremes and standard
// deviation, and sketch.Hist's estimate at the three standard quantiles.
func (h *Histogram) Summary() Summary {
	if h == nil {
		return Summary{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	n := h.hist.Count()
	if n == 0 {
		return Summary{}
	}
	s := Summary{
		Count: int(n),
		Mean:  h.sum / float64(n),
		Min:   h.hist.Min(),
		Max:   h.hist.Max(),
		P50:   h.hist.Quantile(0.50),
		P95:   h.hist.Quantile(0.95),
		P99:   h.hist.Quantile(0.99),
	}
	if variance := h.sumSq/float64(n) - s.Mean*s.Mean; variance > 0 {
		s.StdDev = math.Sqrt(variance)
	}
	return s
}

// Registry is a named set of instruments. Instruments are created on first
// use and shared by name thereafter. All methods are safe for concurrent use.
// A nil *Registry hands out nil instruments and snapshots empty.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	// runtime is the registry's one runtime-gauge sampler (RuntimeGauges).
	runtimeOnce sync.Once
	runtime     func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return instrument(&r.mu, r.counters, name)
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return instrument(&r.mu, r.gauges, name)
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return instrument(&r.mu, r.hists, name)
}

// instrument returns the named instrument of m, which mu guards, creating it
// on first use.
func instrument[T any](mu *sync.RWMutex, m map[string]*T, name string) *T {
	mu.RLock()
	v := m[name]
	mu.RUnlock()
	if v != nil {
		return v
	}
	mu.Lock()
	defer mu.Unlock()
	if v = m[name]; v == nil {
		v = new(T)
		m[name] = v
	}
	return v
}

// Snapshot is a point-in-time copy of every instrument in a registry. It
// marshals directly to the /metrics JSON document.
type Snapshot struct {
	Counters   map[string]int64   `json:"counters"`
	Gauges     map[string]float64 `json:"gauges"`
	Histograms map[string]Summary `json:"histograms"`
}

// Snapshot captures all instruments.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{Counters: map[string]int64{}, Gauges: map[string]float64{}, Histograms: map[string]Summary{}}
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]Summary, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Summary()
	}
	return s
}

// Diff returns the change from prev to s: counters and histogram counts are
// subtracted (instruments absent from prev diff against zero), gauges keep
// their current reading (an instantaneous value has no meaningful delta).
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]int64, len(s.Counters)),
		Gauges:     make(map[string]float64, len(s.Gauges)),
		Histograms: make(map[string]Summary, len(s.Histograms)),
	}
	for name, v := range s.Counters {
		out.Counters[name] = v - prev.Counters[name]
	}
	for name, v := range s.Gauges {
		out.Gauges[name] = v
	}
	for name, h := range s.Histograms {
		ph := prev.Histograms[name]
		h.Count -= ph.Count
		out.Histograms[name] = h
	}
	return out
}

// Rate converts the snapshot's counters — typically the deltas a Diff
// produced — into per-second rates over elapsed. This is how telemetry
// reports turn "requests since last publish" into requests/second. A
// non-positive elapsed yields an empty map: a rate over no time is
// meaningless, not infinite.
func (s Snapshot) Rate(elapsed time.Duration) map[string]float64 {
	out := make(map[string]float64, len(s.Counters))
	if elapsed <= 0 {
		return out
	}
	secs := elapsed.Seconds()
	for name, v := range s.Counters {
		out[name] = float64(v) / secs
	}
	return out
}
