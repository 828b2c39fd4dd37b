// Package obs is the middleware's shared observability layer: a
// zero-dependency metrics registry holding named counters, gauges, and
// latency histograms. Every subsystem that owns a hot path — transports,
// the netsim substrate, netmux, discovery, the recovery WAL, the endpoint
// interceptor chain — registers its instruments here, so one snapshot of
// the default registry describes the whole stack. The webbridge serves
// that snapshot as JSON on /metrics and ndsm-bench dumps it with -metrics.
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
// use; instances obtained from a Registry are shared by name.
type Counter struct {
	v atomic.Int64
}

// Inc adds delta (which should be non-negative) to the counter.
func (c *Counter) Inc(delta int64) { c.v.Add(delta) }

// Value returns the current tally.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous float64 value (queue depth, energy budget).
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge reading.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a sketch.Hist behind a mutex, plus the running sums a mean and
// a standard deviation need. Observations are milliseconds wherever the
// middleware records latency; see sketch.Hist for the grid and its error
// bound. The zero value is ready to use.
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
	h.mu.Lock()
	if h.hist.Add(v) {
		h.sum += v
		h.sumSq += v * v
	}
	h.mu.Unlock()
}

// Summary is a point-in-time digest of a Histogram. The JSON shape (lowercase
// keys, quantiles as p50/p95/p99) is what /metrics and ndsm-bench -metrics
// serve for every histogram. An empty histogram summarises to zeros.
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
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry that all middleware components
// use unless they are given an explicit one.
func Default() *Registry { return defaultRegistry }

// Or returns r, or the default registry when r is nil — the idiom components
// use to accept an optional registry.
func Or(r *Registry) *Registry {
	if r == nil {
		return defaultRegistry
	}
	return r
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
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
